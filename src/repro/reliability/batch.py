"""Batched Monte-Carlo reliability engines.

The decoder-in-the-loop engines, array at a time; their scalar reference
(one :meth:`~repro.schemes.base.EccScheme.read_line` per trial) is the
test oracle ``tests/oracle.py``.  The restructuring has three parts:

1. **Coordinate pre-sampling.**  Every per-trial random draw is made up
   front with the *same generator and call order* as the scalar loop,
   so the sampled trial set is bit-identical.  (Vectorised ``rng.integers``
   with ``size=`` draws a different stream than repeated scalar calls, so
   the pre-sampling loop deliberately stays scalar - it is a negligible
   fraction of the run.)
2. **Fault-universe grouping.**  Trials that share a universe (an epoch of
   ``resample_faults_every`` trials in :func:`run_iid_batched`) build their
   overlays and devices once, and all reads of a chunk go through the
   scheme's batched decode path (:meth:`~repro.schemes.base.EccScheme.read_lines`),
   which screens clean rows in one pass and pushes the dirty minority
   through ``decode_batch``.
3. **Chunked dispatch.**  Chunks are self-contained (scheme, rates, seeds,
   pre-sampled coordinates), so they can run inline or on a
   ``ProcessPoolExecutor``.  Tallies are pure counts and merge
   commutatively; each chunk's inputs are deterministic, so the merged
   tally is identical for every ``workers`` setting - ``workers=N`` equals
   ``workers=1`` equals the scalar oracle, bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from ..errors import ChunkFailure
from ..faults.rates import FaultRates
from ..faults.rng import scratch_generator
from ..faults.sampler import FaultOverlay, MaskRequest, prime_masks
from ..faults.types import FaultInstance, FaultType, TransferBurst
from ..obs import metrics as _obs
from ..obs import trace as _trace
from ..schemes.base import EccScheme
from .exact import ExactRunConfig, _make_chips, _plant_fault, _sample_overlays, _zero_line
from .outcomes import Tally, classify

#: default number of trials grouped into one dispatch unit; bounds both the
#: live device/overlay count and the size of each decode batch.
DEFAULT_CHUNK_TRIALS = 256

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


def _prime_reads(scheme: EccScheme, reads: list, rng: np.random.Generator) -> None:
    """Build every fault mask the reads will ask their chips for, in one pass.

    ``rng`` is the chunk's scratch Generator
    (:func:`repro.faults.rng.scratch_generator`).
    """
    device = scheme.rank.device
    width = device.data_bits_per_pin_per_row + device.spare_bits_per_pin_per_row
    requests: list[MaskRequest] = []
    for chips, bank, row, col, _ in reads:
        footprint = scheme.read_footprint(col) or ((0, width),)
        requests.extend(
            (chip.fault_overlay, bank, row, (device.pins, width), footprint)
            for chip in chips
            if isinstance(chip.fault_overlay, FaultOverlay)
        )
    prime_masks(requests, rng)


def _tally_reads(scheme: EccScheme, reads: list) -> Tally:
    """Classify a batch of line reads against the all-zero line."""
    if _obs.enabled():
        _H_OCCUPANCY.observe(len(reads))
    expected = _zero_line(scheme)
    tally = Tally()
    for result in scheme.read_lines(reads):
        tally.add(classify(result, expected))
    return tally


def _merge_dispatch(
    fn: Callable[..., Tally],
    arg_tuples: list[tuple],
    workers: int,
    labels: list[str] | None = None,
) -> Tally:
    """Run chunk workers inline or across processes; merge their tallies.

    A worker process dying (OOM kill, segfault, interpreter crash) breaks
    the whole pool; that surfaces as :class:`repro.errors.ChunkFailure`
    naming the first affected chunk (``labels[i]``, which callers build to
    include the chunk id and seed) instead of a bare pool traceback.
    """
    total = Tally()
    if workers <= 1 or len(arg_tuples) <= 1:
        for args in arg_tuples:
            total = total.merge(fn(*args))
        return total
    labels = labels or [f"chunk {i}" for i in range(len(arg_tuples))]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for args in arg_tuples]
        for index, (label, future) in enumerate(zip(labels, futures)):
            try:
                total = total.merge(future.result())
            except BrokenProcessPool as exc:
                raise ChunkFailure(
                    f"worker process died while running {label}; "
                    "rerun with workers=1 to isolate, or use repro.campaign "
                    "for supervised retry",
                    chunk_id=index,
                ) from exc
    return total


# -- i.i.d. weak-cell process --------------------------------------------------


def _sample_iid_coords(scheme: EccScheme, config: ExactRunConfig) -> list[tuple[int, int, int]]:
    """(bank, row, col) per trial, drawn in the scalar loop's order."""
    rng = np.random.default_rng([config.seed, 0xE4AC7])
    device = scheme.rank.device
    coords = []
    for _ in range(config.trials):
        bank = int(rng.integers(device.banks))
        row = int(rng.integers(device.rows_per_bank))
        col = int(rng.integers(device.columns_per_row))
        coords.append((bank, row, col))
    return coords


def iid_epochs(
    scheme: EccScheme, config: ExactRunConfig
) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """``(chip_seed, coords)`` fault-universe epochs of an i.i.d. run.

    One epoch per ``resample_faults_every`` run of trials, chip seed
    ``config.seed + first_trial`` - exactly the rebuild points of the
    scalar loop.  This is the shared chunking vocabulary: both
    :func:`run_iid_batched` and the campaign planner
    (:mod:`repro.campaign.plan`) derive their chunks from it, which is what
    makes a resumed campaign bit-identical to an uninterrupted run.
    """
    coords = _sample_iid_coords(scheme, config)
    every = max(1, config.resample_faults_every)
    return [
        (config.seed + start, coords[start : start + every])
        for start in range(0, config.trials, every)
    ]


def _iid_chunk(scheme: EccScheme, rates: FaultRates, epochs: list) -> Tally:
    """One dispatch unit: a run of (chip_seed, coords) fault-universe epochs.

    Every chip's fault sampler is seeded in one pass, and every read's masks
    are built in one pass (:func:`_prime_reads`) before the reads run.
    """
    with _trace.span("reliability.iid_chunk", epochs=len(epochs)) as sp:
        rng = scratch_generator()
        overlay_sets = _sample_overlays(scheme, rates, [seed for seed, _ in epochs], rng)
        reads = []
        for overlays, (_, coords) in zip(overlay_sets, epochs):
            chips = scheme.make_devices(list(overlays))
            reads.extend((chips, bank, row, col, None) for bank, row, col in coords)
        _prime_reads(scheme, reads, rng)
        tally = _tally_reads(scheme, reads)
    _observe_chunk(sp, len(reads))
    return tally


def iid_chunk_tally(scheme: EccScheme, rates: FaultRates, epochs: list) -> Tally:
    """Public alias of the i.i.d. chunk executor (campaign worker entry)."""
    return _iid_chunk(scheme, rates, epochs)


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
    epochs = iid_epochs(scheme, config)
    every = max(1, config.resample_faults_every)
    per_chunk = max(1, chunk_trials // every)
    chunks = [epochs[i : i + per_chunk] for i in range(0, len(epochs), per_chunk)]
    return _merge_dispatch(
        _iid_chunk,
        [(scheme, rates, chunk) for chunk in chunks],
        workers,
        labels=[
            f"iid chunk {i} (chip_seed={chunk[0][0]})" for i, chunk in enumerate(chunks)
        ],
    )


# -- one planted structured fault ----------------------------------------------


def _sample_single_fault_trials(
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
        fault = _plant_fault(kind, rates, device, 64, col, total_bits, rng)
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


def single_fault_specs(
    scheme: EccScheme, kind: FaultType, rates: FaultRates, config: ExactRunConfig
) -> list[tuple[int, int, FaultInstance, TransferBurst | None]]:
    """Public alias of the single-fault trial pre-sampler (campaign planner)."""
    return _sample_single_fault_trials(scheme, kind, rates, config)


def _single_fault_reads(
    scheme: EccScheme, clean: FaultRates, seed: int, specs: list
) -> list:
    reads = []
    for trial, col, fault, burst in specs:
        faults_per_chip: list[list[FaultInstance]] = [[] for _ in range(scheme.rank.chips)]
        faults_per_chip[0] = [fault]
        chips = _make_chips(
            scheme, clean, seed=seed * 7919 + trial, faults_per_chip=faults_per_chip
        )
        reads.append((chips, 0, 64, col, {0: burst} if burst is not None else None))
    return reads


def _single_fault_chunk(
    scheme: EccScheme, clean: FaultRates, seed: int, specs: list
) -> Tally:
    with _trace.span("reliability.single_fault_chunk", trials=len(specs)) as sp:
        reads = _single_fault_reads(scheme, clean, seed, specs)
        _prime_reads(scheme, reads, scratch_generator())
        tally = _tally_reads(scheme, reads)
    _observe_chunk(sp, len(specs))
    return tally


def single_fault_chunk_tally(
    scheme: EccScheme, clean: FaultRates, seed: int, specs: list
) -> Tally:
    """Public alias of the single-fault chunk executor (campaign worker entry)."""
    return _single_fault_chunk(scheme, clean, seed, specs)


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
    specs = _sample_single_fault_trials(scheme, kind, rates, config)
    clean = rates.with_ber(0.0)
    chunks = [specs[i : i + chunk_trials] for i in range(0, len(specs), chunk_trials)]
    return _merge_dispatch(
        _single_fault_chunk,
        [(scheme, clean, config.seed, chunk) for chunk in chunks],
        workers,
        labels=[
            f"single-fault[{kind.value}] chunk {i} (first_trial={chunk[0][0]}, "
            f"seed={config.seed})"
            for i, chunk in enumerate(chunks)
        ],
    )


# -- write-path transfer bursts ------------------------------------------------


def _burst_length_tally(
    scheme: EccScheme, length: int, config: ExactRunConfig
) -> tuple[int, Tally]:
    device = scheme.rank.device
    rng = np.random.default_rng([config.seed, 0xB0057, length])
    length_eff = min(length, device.burst_length)
    clean = FaultRates(
        single_cell_ber=0.0, row_faults_per_device=0.0, column_faults_per_device=0.0,
        pin_faults_per_device=0.0, mat_faults_per_device=0.0,
        transfer_burst_per_access=0.0,
    )
    with _trace.span("reliability.burst_chunk", length=length) as sp:
        chips = _make_chips(scheme, clean, seed=config.seed)
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
    return length, tally


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
    if workers <= 1 or len(lengths) <= 1:
        return {length: _burst_length_tally(scheme, length, config)[1] for length in lengths}
    out: dict[int, Tally] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_burst_length_tally, scheme, length, config) for length in lengths
        ]
        for length, future in zip(lengths, futures):
            try:
                got_length, tally = future.result()
            except BrokenProcessPool as exc:
                raise ChunkFailure(
                    f"worker process died while running burst length {length} "
                    f"(seed={config.seed})",
                    seed=config.seed,
                ) from exc
            out[got_length] = tally
    return out
