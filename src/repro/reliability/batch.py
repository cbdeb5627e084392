"""Batched Monte-Carlo reliability engines.

The decoder-in-the-loop engines, array at a time; their scalar reference
(one trial at a time, each read through a scalar reader that decodes one
codeword per call) is the test oracle ``tests/oracle.py``.  The
restructuring has three parts:

1. **Coordinate pre-sampling.**  Every per-trial random draw is made up
   front from the *same generator, in the same order* as the scalar loop,
   so the sampled trial set is bit-identical.  ``rng.integers(size=)``
   draws a different stream than repeated scalar calls, so the i.i.d.
   coordinates come from :func:`repro.faults.rng.bounded_ints`, which
   reproduces the scalar calls' Lemire draws in one array pass; the
   single-fault and burst loops stay scalar.
2. **One universe builder.**  A chunk reads from fault universes, each the
   rank's chips with their seeds and structured faults: an i.i.d. epoch of
   ``resample_faults_every`` trials shares one, and a single-fault trial is
   one of its own, its fault planted on chip 0.  Both chunks build their
   reads through :func:`_universe_reads`, which makes every read's mask on
   every chip in one array pass (:func:`repro.faults.sampler.dirty_overlays`).
   Only the chips some read sees faulty get an overlay and a device; every
   other chip of the chunk is one shared fault-free device.  A burst chunk
   has no persistent faults and reads fault-free devices.  All reads of a
   chunk go through one call of the scheme's reader
   (:meth:`~repro.schemes.base.EccScheme.read_lines`), which skips clean
   rows, pushes the dirty minority through one ``decode_batch`` and returns
   a columnar :class:`~repro.schemes.base.BatchRead`; the chunk's tally
   counts its arrays against the all-zero line (:func:`~.outcomes.tally_batch`).
3. **Chunked dispatch.**  Chunks are self-contained (scheme, rates, seeds,
   pre-sampled coordinates) and cut in one place (:func:`iid_chunks`,
   :func:`single_fault_chunks`, shared with the campaign planner), so they
   can run inline or on a ``ProcessPoolExecutor`` (:func:`_dispatch`).
   Tallies are pure counts and merge commutatively; each chunk's inputs are
   deterministic, so the merged tally is identical for every ``workers``
   setting - ``workers=N`` equals ``workers=1`` equals the scalar oracle,
   bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import reduce
from typing import Any

import numpy as np

from ..dram.device import DramDevice
from ..errors import ChunkFailure
from ..faults.rates import FaultRates
from ..faults.rng import bounded_ints, scratch_generator
from ..faults.sampler import dirty_overlays, sample_fault_lists
from ..faults.types import FaultInstance, FaultType, TransferBurst
from ..obs import metrics as _obs
from ..obs import trace as _trace
from ..schemes.base import EccScheme
from .exact import ExactRunConfig, _chip_seeds, _plant_fault, _zero_line
from .outcomes import Tally, tally_batch

#: default number of trials grouped into one dispatch unit; bounds both the
#: live device/overlay count and the size of each decode batch.
DEFAULT_CHUNK_TRIALS = 256

#: the bank-0 row every single-fault trial reads, its fault planted across it.
_PLANT_ROW = 64

# Observability (DESIGN.md 6e): batch occupancy (reads per dispatched
# decode batch) and chunk throughput.  Timing comes from spans recorded in
# :mod:`repro.obs.trace` - this module never reads a clock itself (REPRO103),
# and none of these values can flow back into a tally.
_H_OCCUPANCY = _obs.histogram("reliability.batch.occupancy_reads", _obs.SIZE_BUCKETS)
_H_ROWS_PER_S = _obs.histogram("reliability.chunk.rows_per_s", _obs.RATE_BUCKETS)
_C_CHUNKS = _obs.counter("reliability.chunks")


def _observe_chunk(span: "_trace.SpanRecord | None", reads: int) -> None:
    """Fold one finished chunk span into the throughput metrics."""
    if span is None:
        return
    _C_CHUNKS.add(1)
    if span.duration > 0:
        _H_ROWS_PER_S.observe(reads / span.duration)


def _universe_reads(
    scheme: EccScheme,
    rates: FaultRates,
    seeds: Sequence[int],
    faults: Sequence[list[FaultInstance]],
    universe: np.ndarray,
    coords: np.ndarray,
    bursts: Sequence[dict[int, TransferBurst] | None],
    rng: np.random.Generator,
) -> list:
    """A chunk's line reads, every fault mask built in one pass.

    Universe ``u`` is the rank's chips ``u * chips + c``, chip ``k`` with
    seed ``seeds[k]`` and structured faults ``faults[k]``.  Read ``i`` reads
    universe ``universe[i]`` at ``coords[i]`` (bank, row, col) with the
    transfer bursts ``bursts[i]``.  Every read's mask on every chip comes
    from one :func:`repro.faults.sampler.dirty_overlays` call
    (``faults.mask``).  Only a chip that some read sees faulty gets an
    overlay and a device of its own; every other chip is one shared
    fault-free device, which the readers skip as clean.  ``rng`` is the
    chunk's scratch Generator (:func:`repro.faults.rng.scratch_generator`).
    """
    device, chips = scheme.rank.device, scheme.rank.chips
    with _trace.span("faults.mask"):
        cols, footprint_of = np.unique(coords[:, 2], return_inverse=True)
        width = device.data_bits_per_pin_per_row + device.spare_bits_per_pin_per_row
        footprints = [scheme.read_footprint(col) or ((0, width),) for col in cols.tolist()]
        chip_reads = (
            (universe[:, None] * chips + np.arange(chips)).ravel(),
            np.repeat(coords[:, 0], chips),
            np.repeat(coords[:, 1], chips),
            np.repeat(footprint_of, chips),
        )
        overlays = dirty_overlays(device, rates, seeds, faults, chip_reads, footprints, rng)
    clean = DramDevice(device)
    chip_sets = [[clean] * chips for _ in range(len(seeds) // chips)]
    for k, overlay in overlays.items():
        chip_sets[k // chips][k % chips] = DramDevice(device, overlay)
    return [
        (chip_sets[u], bank, row, col, burst)
        for u, (bank, row, col), burst in zip(universe.tolist(), coords.tolist(), bursts)
    ]


def _tally_reads(scheme: EccScheme, reads: list) -> Tally:
    """Classify a batch of line reads against the all-zero line."""
    if _obs.enabled():
        _H_OCCUPANCY.observe(len(reads))
    return tally_batch(scheme.read_lines(reads), _zero_line(scheme))


def _dispatch(
    fn: Callable[..., Any],
    arg_tuples: list[tuple],
    workers: int,
    labels: list[str] | None = None,
) -> list:
    """Run chunk workers inline or across processes; their results in order.

    A worker process dying (OOM kill, segfault, interpreter crash) breaks
    the whole pool; that surfaces as :class:`repro.errors.ChunkFailure`
    naming the first affected chunk (``labels[i]``, which callers build to
    include the chunk id and seed) instead of a bare pool traceback.
    """
    if workers <= 1 or len(arg_tuples) <= 1:
        return [fn(*args) for args in arg_tuples]
    # the process-pool stack loads only when a run fans out
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    labels = labels or [f"chunk {i}" for i in range(len(arg_tuples))]
    results = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for args in arg_tuples]
        for index, (label, future) in enumerate(zip(labels, futures)):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                raise ChunkFailure(
                    f"worker process died while running {label}; "
                    "rerun with workers=1 to isolate, or use repro.campaign "
                    "for supervised retry",
                    chunk_id=index,
                ) from exc
    return results


def _merge(tallies: list[Tally]) -> Tally:
    """The chunks' tallies merged in chunk order."""
    return reduce(Tally.merge, tallies, Tally())


# -- i.i.d. weak-cell process --------------------------------------------------


def _sample_iid_coords(scheme: EccScheme, config: ExactRunConfig) -> list[tuple[int, int, int]]:
    """(bank, row, col) per trial: the scalar loop's ``rng.integers`` draws,
    made in one call (:func:`repro.faults.rng.bounded_ints`)."""
    rng = np.random.default_rng([config.seed, 0xE4AC7])
    device = scheme.rank.device
    ranges = np.tile([device.banks, device.rows_per_bank, device.columns_per_row], config.trials)
    draws = bounded_ints(rng.bit_generator, ranges).reshape(config.trials, 3)
    return [(bank, row, col) for bank, row, col in draws.tolist()]


def iid_epochs(
    scheme: EccScheme, config: ExactRunConfig
) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """``(chip_seed, coords)`` fault-universe epochs of an i.i.d. run.

    One epoch per ``resample_faults_every`` run of trials, chip seed
    ``config.seed + first_trial`` - exactly the rebuild points of the
    scalar loop.
    """
    coords = _sample_iid_coords(scheme, config)
    every = max(1, config.resample_faults_every)
    return [
        (config.seed + start, coords[start : start + every])
        for start in range(0, config.trials, every)
    ]


def iid_chunks(scheme: EccScheme, config: ExactRunConfig, chunk_trials: int) -> list[list]:
    """The i.i.d. run's epochs cut into chunks of about ``chunk_trials`` trials.

    A chunk holds whole epochs, at least one.  This is the shared chunking:
    both :func:`run_iid_batched` and the campaign planner
    (:mod:`repro.campaign.plan`) cut their chunks here, which is what makes
    a resumed campaign bit-identical to an uninterrupted run.
    """
    epochs = iid_epochs(scheme, config)
    per_chunk = max(1, chunk_trials // max(1, config.resample_faults_every))
    return [epochs[i : i + per_chunk] for i in range(0, len(epochs), per_chunk)]


def iid_chunk_tally(scheme: EccScheme, rates: FaultRates, epochs: list) -> Tally:
    """One dispatch unit: a run of (chip_seed, coords) fault-universe epochs.

    Every chip's structured faults are sampled at once (``faults.overlay``),
    then the chunk's reads are built over them (:func:`_universe_reads`).
    The campaign's i.i.d. worker entry.
    """
    with _trace.span("reliability.iid_chunk", epochs=len(epochs)) as sp:
        rng = scratch_generator()
        coords = np.array([c for _, epoch in epochs for c in epoch], dtype=np.int64).reshape(-1, 3)
        universe = np.repeat(np.arange(len(epochs)), [len(epoch) for _, epoch in epochs])
        with _trace.span("faults.overlay"):
            seeds = [chip_seed for seed, _ in epochs for chip_seed in _chip_seeds(scheme, seed)]
            faults = sample_fault_lists(scheme.rank.device, rates, seeds, rng)
        reads = _universe_reads(
            scheme, rates, seeds, faults, universe, coords, [None] * len(coords), rng
        )
        tally = _tally_reads(scheme, reads)
    _observe_chunk(sp, len(reads))
    return tally


def run_iid_batched(
    scheme: EccScheme,
    rates: FaultRates,
    config: ExactRunConfig,
    workers: int = 1,
    chunk_trials: int = DEFAULT_CHUNK_TRIALS,
) -> Tally:
    """Monte-Carlo over random accesses under the full fault process.

    Each trial reads one random line; classification is against the
    all-zero expected line.  Trials are grouped into fault-universe epochs
    (one per ``resample_faults_every`` run of trials, chip seed
    ``config.seed + first_trial``), epochs into chunks of roughly
    ``chunk_trials`` trials, and chunks across ``workers`` processes.
    """
    chunks = iid_chunks(scheme, config, chunk_trials)
    return _merge(_dispatch(
        iid_chunk_tally,
        [(scheme, rates, chunk) for chunk in chunks],
        workers,
        labels=[
            f"iid chunk {i} (chip_seed={chunk[0][0]})" for i, chunk in enumerate(chunks)
        ],
    ))


# -- one planted structured fault ----------------------------------------------


def single_fault_specs(
    scheme: EccScheme, kind: FaultType, rates: FaultRates, config: ExactRunConfig
) -> list[tuple[int, int, FaultInstance, TransferBurst | None]]:
    """(trial, col, fault, burst) per trial, drawn in the scalar loop's order.

    The scalar loop draws the burst parameters *after* building the chips,
    but chip construction never touches this generator, so drawing them
    here keeps the stream identical.
    """
    rng = np.random.default_rng([config.seed, 0xFA3])
    device = scheme.rank.device
    total_bits = device.data_bits_per_pin_per_row + device.spare_bits_per_pin_per_row
    specs = []
    for trial in range(config.trials):
        col = int(rng.integers(device.columns_per_row))
        fault = _plant_fault(kind, rates, device, _PLANT_ROW, col, total_bits, rng)
        burst = None
        if kind is FaultType.TRANSFER_BURST:
            length = min(rates.transfer_burst_length, device.burst_length)
            burst = TransferBurst(
                pin=int(rng.integers(device.pins)),
                beat_start=int(rng.integers(device.burst_length - length + 1)),
                length=length,
            )
        specs.append((trial, col, fault, burst))
    return specs


def single_fault_chunks(
    scheme: EccScheme,
    kind: FaultType,
    rates: FaultRates,
    config: ExactRunConfig,
    chunk_trials: int,
) -> list[list]:
    """The single-fault run's trials cut into chunks of ``chunk_trials``
    (:func:`run_single_fault_batched` and the campaign planner)."""
    specs = single_fault_specs(scheme, kind, rates, config)
    return [specs[i : i + chunk_trials] for i in range(0, len(specs), chunk_trials)]


def single_fault_chunk_tally(
    scheme: EccScheme, clean: FaultRates, seed: int, specs: list
) -> Tally:
    """One dispatch unit of single-fault trials.

    Each trial is a fault universe of its own: chip seeds
    ``_chip_seeds(scheme, seed * 7919 + trial)``, the trial's fault on chip
    0 and none on the others, one read of bank 0, row ``_PLANT_ROW``.  The
    campaign's single-fault worker entry.
    """
    with _trace.span("reliability.single_fault_chunk", trials=len(specs)) as sp:
        chips = scheme.rank.chips
        seeds = [s for trial, *_ in specs for s in _chip_seeds(scheme, seed * 7919 + trial)]
        faults = [[fault] if k == 0 else [] for _, _, fault, _ in specs for k in range(chips)]
        coords = np.array(
            [(0, _PLANT_ROW, col) for _, col, _, _ in specs], dtype=np.int64
        ).reshape(-1, 3)
        bursts = [None if burst is None else {0: burst} for *_, burst in specs]
        reads = _universe_reads(
            scheme, clean, seeds, faults, np.arange(len(specs)), coords, bursts,
            scratch_generator(),
        )
        tally = _tally_reads(scheme, reads)
    _observe_chunk(sp, len(reads))
    return tally


def run_single_fault_batched(
    scheme: EccScheme,
    kind: FaultType,
    rates: FaultRates,
    config: ExactRunConfig,
    workers: int = 1,
    chunk_trials: int = DEFAULT_CHUNK_TRIALS,
) -> Tally:
    """Outcome distribution *given* one structured fault under the access.

    Plants exactly one fault of ``kind`` in chip 0 so that its footprint
    intersects the read location, then classifies the read.  This isolates
    each fault class's per-event severity (experiment F3); combining with
    occurrence rates is done by the bench.
    """
    chunks = single_fault_chunks(scheme, kind, rates, config, chunk_trials)
    clean = rates.with_ber(0.0)
    return _merge(_dispatch(
        single_fault_chunk_tally,
        [(scheme, clean, config.seed, chunk) for chunk in chunks],
        workers,
        labels=[
            f"single-fault[{kind.value}] chunk {i} (first_trial={chunk[0][0]}, "
            f"seed={config.seed})"
            for i, chunk in enumerate(chunks)
        ],
    ))


# -- write-path transfer bursts ------------------------------------------------


def _burst_length_tally(scheme: EccScheme, length: int, config: ExactRunConfig) -> Tally:
    device = scheme.rank.device
    rng = np.random.default_rng([config.seed, 0xB0057, length])
    length_eff = min(length, device.burst_length)
    with _trace.span("reliability.burst_chunk", length=length) as sp:
        chips = scheme.make_devices()
        reads = []
        for _ in range(config.trials):
            row = int(rng.integers(device.rows_per_bank))
            col = int(rng.integers(device.columns_per_row))
            burst = TransferBurst(
                pin=int(rng.integers(device.pins)),
                beat_start=int(rng.integers(device.burst_length - length_eff + 1)),
                length=length_eff,
            )
            reads.append((chips, 0, row, col, {0: burst}))
        tally = _tally_reads(scheme, reads)
    _observe_chunk(sp, len(reads))
    return tally


def run_burst_lengths_batched(
    scheme: EccScheme,
    lengths: list[int],
    config: ExactRunConfig,
    workers: int = 1,
) -> dict[int, Tally]:
    """Correction coverage of write-path transfer bursts (experiment F4).

    For each burst length, injects a burst on a random pin of chip 0 (no
    other faults) and classifies the read.  Each burst length is an
    independent run with its own generator stream, so lengths are the
    parallelism unit.
    """
    tallies = _dispatch(
        _burst_length_tally,
        [(scheme, length, config) for length in lengths],
        workers,
        labels=[f"burst length {length} (seed={config.seed})" for length in lengths],
    )
    return dict(zip(lengths, tallies))
