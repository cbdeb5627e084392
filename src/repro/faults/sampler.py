"""Sampling fault instances and materialising per-row error masks.

A :class:`FaultSampler` draws the persistent fault population of one device
from :class:`~repro.faults.rates.FaultRates`; the resulting
:class:`FaultOverlay` plugs into :class:`repro.dram.device.DramDevice` and
produces deterministic, reproducible flip masks per row.

Determinism matters: masks are derived from ``(seed, bank, row)`` substreams,
so reading the same row twice sees the same weak cells (inherent faults are
persistent), and two schemes evaluated against the same seed see the same
fault universe - the comparisons in the paper are paired.

Every mask comes from one builder, :func:`_build_masks`: a lazy
:meth:`FaultOverlay.mask_for_row`, and :func:`dirty_overlays`, which builds
the masks of a whole Monte-Carlo chunk from arrays of chip seeds and read
coordinates and makes an overlay only for the chips whose masks are not all
empty.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

from ..dram.config import DeviceConfig
from ..dram.mapping import Footprint
from ..obs import metrics as _obs
from .rates import FaultRates
from .rng import POISSON_MULT_MAX, Runs, key_array, scratch_generator, seed_states, uniforms
from .types import FaultInstance, FaultType, TransferBurst

#: stream tags: a key is ``[seed, tag]`` (fault sampling) or
#: ``[seed, bank, row, tag]`` (a row's weak cells and cluster anchors, or
#: structured fault ``index`` with tag ``_FAULT_TAG + index``).
_SAMPLER_TAG, _CELL_TAG, _FAULT_TAG = 0xFA017, 0xCE11, 0xFA1137


class FaultSampler:
    """Draws the structured-fault population of a device."""

    def __init__(self, config: DeviceConfig, rates: FaultRates, seed: int = 0):
        self.config = config
        self.rates = rates
        self.seed = seed

    @property
    def key(self) -> tuple[int, int]:
        """The seed key of the sampler's stream."""
        return (self.seed, _SAMPLER_TAG)

    def sample_faults(self, rng: np.random.Generator | None = None) -> list[FaultInstance]:
        """Poisson-sample all persistent structured faults of the device.

        ``rng`` is this sampler's stream, ``default_rng(self.key)`` unless
        the caller seeded it already: the batched engines seed every
        sampler of a chunk at once (:func:`repro.faults.rng.seed_states`).
        """
        rng = rng if rng is not None else np.random.default_rng(self.key)
        faults: list[FaultInstance] = []
        faults += self._sample_rows(rng)
        faults += self._sample_columns(rng)
        faults += self._sample_pins(rng)
        faults += self._sample_mats(rng)
        return faults

    def _total_bits_per_pin(self) -> int:
        cfg = self.config
        return cfg.data_bits_per_pin_per_row + cfg.spare_bits_per_pin_per_row

    def _sample_rows(self, rng: np.random.Generator) -> list[FaultInstance]:
        cfg, rates = self.config, self.rates
        count = rng.poisson(rates.row_faults_per_device)
        return [
            FaultInstance(
                kind=FaultType.ROW,
                bank=int(rng.integers(cfg.banks)),
                row_start=int(rng.integers(cfg.rows_per_bank)),
                row_count=1,
                pin=-1,
                bit_start=0,
                bit_count=self._total_bits_per_pin(),
                density=rates.row_density,
            )
            for _ in range(count)
        ]

    def _sample_columns(self, rng: np.random.Generator) -> list[FaultInstance]:
        cfg, rates = self.config, self.rates
        count = rng.poisson(rates.column_faults_per_device)
        total_bits = self._total_bits_per_pin()
        out = []
        for _ in range(count):
            span = min(rates.column_rows, cfg.rows_per_bank)
            start = int(rng.integers(cfg.rows_per_bank - span + 1))
            out.append(
                FaultInstance(
                    kind=FaultType.COLUMN,
                    bank=int(rng.integers(cfg.banks)),
                    row_start=start,
                    row_count=span,
                    pin=int(rng.integers(cfg.pins)),
                    bit_start=int(rng.integers(total_bits)),
                    bit_count=1,
                    density=rates.column_density,
                )
            )
        return out

    def _sample_pins(self, rng: np.random.Generator) -> list[FaultInstance]:
        cfg, rates = self.config, self.rates
        count = rng.poisson(rates.pin_faults_per_device)
        return [
            FaultInstance(
                kind=FaultType.PIN_LINE,
                bank=int(rng.integers(cfg.banks)),
                row_start=0,
                row_count=cfg.rows_per_bank,
                pin=int(rng.integers(cfg.pins)),
                bit_start=0,
                bit_count=self._total_bits_per_pin(),
                density=rates.pin_density,
            )
            for _ in range(count)
        ]

    def _sample_mats(self, rng: np.random.Generator) -> list[FaultInstance]:
        cfg, rates = self.config, self.rates
        count = rng.poisson(rates.mat_faults_per_device)
        total_bits = self._total_bits_per_pin()
        out = []
        for _ in range(count):
            rows = min(rates.mat_rows, cfg.rows_per_bank)
            bits = min(rates.mat_bits, total_bits)
            out.append(
                FaultInstance(
                    kind=FaultType.MAT,
                    bank=int(rng.integers(cfg.banks)),
                    row_start=int(rng.integers(cfg.rows_per_bank - rows + 1)),
                    row_count=rows,
                    pin=int(rng.integers(cfg.pins)),
                    bit_start=int(rng.integers(total_bits - bits + 1)),
                    bit_count=bits,
                    density=rates.mat_density,
                )
            )
        return out


_C_DRAWN = _obs.counter("faults.samplers.drawn")


def sample_fault_lists(
    config: DeviceConfig,
    rates: FaultRates,
    seeds: Sequence[int],
    rng: np.random.Generator | None = None,
) -> list[list[FaultInstance]]:
    """``FaultSampler(config, rates, seed).sample_faults()`` for every seed.

    Every sampler's stream is seeded in one pass, and most samplers draw no
    fault at sparse rates, so each is first screened by its first doubles
    (:data:`repro.faults.rng.POISSON_MULT_MAX`): a class's Poisson count is 0
    exactly when its one double lies at or below ``exp(-rate)``.  Only the
    samplers that fail the screen - all of them when some rate is past the
    screened regime - are sampled by :meth:`FaultSampler.sample_faults`,
    their streams loaded into ``rng``, a scratch Generator
    (:func:`repro.faults.rng.scratch_generator`; made on demand when None).
    """
    if not len(seeds):
        return []
    streams = seed_states([(seed, _SAMPLER_TAG) for seed in seeds])  # FaultSampler.key
    # the classes' Poisson means in sample_faults' order; a zero mean draws
    # no double, so the live classes take the stream's first doubles
    live = [
        rate
        for rate in (
            rates.row_faults_per_device, rates.column_faults_per_device,
            rates.pin_faults_per_device, rates.mat_faults_per_device,
        )
        if rate > 0
    ]
    drawn: Sequence[int] = range(len(seeds))
    if not live:
        drawn = []
    elif max(live) < POISSON_MULT_MAX:
        runs = ((0, len(live)),)
        first = uniforms(streams, [(runs, np.arange(len(seeds)))], rng)[0]
        # math.exp is the libm exp numpy's C code calls
        empty = np.array([math.exp(-rate) for rate in live])
        drawn = np.flatnonzero((first > empty).any(axis=1)).tolist()
    if _obs.enabled():
        _C_DRAWN.add(len(drawn))
    out: list[list[FaultInstance]] = [[] for _ in seeds]
    if drawn:
        rng = rng or scratch_generator()
        for k in drawn:
            out[k] = FaultSampler(config, rates, seeds[k]).sample_faults(streams.load(k, rng))
    return out


#: draws held at once while masks are built, bounding their memory.
_BATCH_CELLS = 1 << 16

_C_PRIMED = _obs.counter("faults.masks.primed")


class FaultOverlay:
    """Materialises deterministic flip masks per row.

    Combines the i.i.d. single-cell process with every structured fault whose
    footprint intersects the row.  Each process draws the cells of a row
    matrix in C order from its own ``(seed, bank, row, ...)`` substream; a
    mask asked for over a read's footprint takes only the draws of the cells
    inside it, so it equals the whole-row mask with every cell outside the
    footprint zeroed.  Masks are cached (bounded, per row and footprint)
    because schemes repeatedly read the same hot rows; :func:`dirty_overlays`
    fills the caches of a chunk's overlays in one pass.
    """

    def __init__(
        self,
        config: DeviceConfig,
        rates: FaultRates,
        seed: int = 0,
        faults: list[FaultInstance] | None = None,
        cache_rows: int = 4096,
    ):
        self.config = config
        self.rates = rates
        self.seed = seed
        self.faults = (
            faults
            if faults is not None
            else FaultSampler(config, rates, seed).sample_faults()
        )
        self._cache: dict[tuple[int, int], dict[Footprint, np.ndarray | None]] = {}
        self._cache_rows = cache_rows
        # Index structured faults by bank for fast row lookups; a fault's
        # position in ``self.faults`` seeds its substream.
        self._by_bank: dict[int, list[tuple[int, FaultInstance]]] = {}
        for index, fault in enumerate(self.faults):
            self._by_bank.setdefault(fault.bank, []).append((index, fault))

    def faults_in_row(self, bank: int, row: int) -> list[FaultInstance]:
        return [f for _, f in self._by_bank.get(bank, ()) if f.affects_row(bank, row)]

    def mask_for_row(
        self, bank: int, row: int, shape: tuple[int, int],
        footprint: Footprint | None = None,
    ) -> np.ndarray | None:
        """Flip mask of a row over ``footprint`` (the whole row when None).

        Cells outside the footprint are zero; None when the mask would be
        all zero.
        """
        if footprint is None:
            footprint = ((0, shape[1]),)
        masks = self._cache.get((bank, row))
        if masks is not None and footprint in masks:
            return masks[footprint]
        rates = self.rates
        layout = _layout(shape, footprint, rates.single_cell_ber, rates.cell_cluster_per_bit)
        blocks = [
            (0, *block)
            for block in _fault_blocks(
                self.seed, self._by_bank.get(bank, ()), bank, row, shape, footprint
            )
        ]
        keys = key_array([(self.seed, bank, row, _CELL_TAG)])
        mask = _build_masks(keys, [layout], np.zeros(1, dtype=np.intp), blocks).get(0)
        self._store(bank, row, footprint, mask)
        return mask

    def _store(
        self, bank: int, row: int, footprint: Footprint, mask: np.ndarray | None
    ) -> None:
        masks = self._cache.get((bank, row))
        if masks is None:
            if len(self._cache) >= self._cache_rows:
                self._cache.clear()
            masks = self._cache[(bank, row)] = {}
        masks[footprint] = mask


def dirty_overlays(
    config: DeviceConfig,
    rates: FaultRates,
    seeds: Sequence[int],
    faults: Sequence[list[FaultInstance]],
    reads: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    footprints: Sequence[Footprint],
    rng: np.random.Generator | None = None,
) -> dict[int, FaultOverlay]:
    """Overlays of the chips that some read sees faulty, by chip index.

    Chip ``k`` has seed ``seeds[k]`` and structured faults ``faults[k]``.
    ``reads`` holds four arrays with one entry per read of one chip: chip,
    bank, row, and footprint (an index into ``footprints``).  Every mask is
    built in one pass, equal to :meth:`FaultOverlay.mask_for_row`'s.  Only a
    chip with a non-empty mask gets an overlay, caching all its reads'
    masks; every other chip reads as zeros, as one without an overlay does.
    ``rng`` is a scratch Generator for the long runs.
    """
    chip, bank, row, footprint = reads
    shape = (config.pins, config.data_bits_per_pin_per_row + config.spare_bits_per_pin_per_row)
    ids: dict[Footprint, int] = {}
    layout_of = np.array([ids.setdefault(fp, len(ids)) for fp in footprints], dtype=np.intp)
    ber, cluster = rates.single_cell_ber, rates.cell_cluster_per_bit
    layouts = [_layout(shape, fp, ber, cluster) for fp in ids]
    seed_of = key_array(seeds)
    keys = np.empty((len(chip), 4), dtype=seed_of.dtype)
    keys[:, 0], keys[:, 1], keys[:, 2], keys[:, 3] = seed_of[chip], bank, row, _CELL_TAG
    faulty = np.flatnonzero([bool(found) for found in faults])
    blocks = [
        (i, *block)
        for i in np.flatnonzero(np.isin(chip, faulty)).tolist()
        for block in _fault_blocks(
            seeds[chip[i]], enumerate(faults[chip[i]]), int(bank[i]), int(row[i]),
            shape, footprints[footprint[i]],
        )
    ]
    if _obs.enabled():
        _C_PRIMED.add(len(chip))
    masks = _build_masks(keys, layouts, layout_of[footprint], blocks, rng)
    dirty = np.unique(chip[np.fromiter(masks, dtype=np.intp, count=len(masks))])
    overlays = {
        k: FaultOverlay(config, rates, seed=seeds[k], faults=faults[k])
        for k in dirty.tolist()
    }
    for i in np.flatnonzero(np.isin(chip, dirty)).tolist():
        overlays[int(chip[i])]._store(
            int(bank[i]), int(row[i]), footprints[footprint[i]], masks.get(i)
        )
    return overlays


@functools.lru_cache(maxsize=8192)
def _runs(base: int, stride: int, rows: int, spans: Footprint) -> Runs:
    """Stream positions ``base + r * stride + offset`` for ``offset`` in spans."""
    runs: list[tuple[int, int]] = []
    for r in range(rows):
        for start, end in spans:
            pos = base + r * stride + start
            if runs and sum(runs[-1]) == pos:
                runs[-1] = (runs[-1][0], runs[-1][1] + end - start)
            else:
                runs.append((pos, end - start))
    return tuple(runs)


_EVERY = slice(None)


class _Block(NamedTuple):
    """One block of a mask: a stream's draws over some cells, thresholded."""

    runs: Runs
    threshold: float
    op: np.ufunc  # how the block combines into the mask
    rows: slice  # mask rows the block covers
    spans: Footprint  # mask columns it covers
    wide: Footprint | None  # cluster anchors: the spans widened one bit left


class _Layout(NamedTuple):
    """A mask's shape and the blocks its weak-cell stream draws."""

    shape: tuple[int, int]
    blocks: tuple[_Block, ...]


@functools.lru_cache(maxsize=8192)
def _layout(shape: tuple[int, int], footprint: Footprint, ber: float, cluster: float) -> _Layout:
    """The weak-cell and cluster-anchor blocks of a mask over ``footprint``."""
    pins, total_bits = shape
    blocks = []
    if ber > 0:
        runs = _runs(0, total_bits, pins, footprint)
        blocks.append(_Block(runs, ber, np.bitwise_or, _EVERY, footprint, None))
    if cluster > 0:
        # an anchor flips itself and its along-pin right neighbour (clusters
        # never wrap), so each span also needs the anchor just left of it
        wide = tuple((max(start - 1, 0), end) for start, end in footprint)
        runs = _runs(pins * total_bits if ber > 0 else 0, total_bits, pins, wide)
        blocks.append(_Block(runs, cluster, np.bitwise_or, _EVERY, footprint, wide))
    return _Layout(shape, tuple(blocks))


def _fault_blocks(
    seed: int,
    faults: Iterable[tuple[int, FaultInstance]],
    bank: int,
    row: int,
    shape: tuple[int, int],
    footprint: Footprint,
) -> list[tuple[tuple[int, int, int, int], _Block]]:
    """``(stream key, block)`` of each structured fault a mask sees, in order.

    ``faults`` pairs each fault with its index in the device's fault list,
    which keys its substream.
    """
    pins, total_bits = shape
    out = []
    for index, fault in faults:
        if not fault.affects_row(bank, row):
            continue
        # the fault draws its (pins, width) block (one pin's width bits for
        # a single-pin fault) in C order
        bit_start = fault.bit_start
        bit_end = min(bit_start + fault.bit_count, total_bits)
        inside = tuple(
            (max(start, bit_start), min(end, bit_end))
            for start, end in footprint
            if start < bit_end and end > bit_start
        )
        if not inside:
            continue
        local = tuple((start - bit_start, end - bit_start) for start, end in inside)
        if fault.pin < 0:
            rows, runs = _EVERY, _runs(0, bit_end - bit_start, pins, local)
        else:
            rows, runs = slice(fault.pin, fault.pin + 1), _runs(0, 0, 1, local)
        out.append((
            (seed, bank, row, _FAULT_TAG + index),
            _Block(runs, fault.density, np.bitwise_xor, rows, inside, None),
        ))
    return out


def _build_masks(
    keys: np.ndarray,
    layouts: Sequence[_Layout],
    layout_of: np.ndarray,
    faults: Sequence[tuple[int, tuple[int, int, int, int], _Block]],
    rng: np.random.Generator | None = None,
) -> dict[int, np.ndarray]:
    """The one mask builder: the non-empty masks of many requests, by index.

    Request ``i`` draws the blocks of ``layouts[layout_of[i]]`` from the
    weak-cell stream keyed by row ``i`` of ``keys`` (an ``(N, 4)`` array of
    ``(seed, bank, row, _CELL_TAG)``), then each of its ``(i, key, block)``
    entries of ``faults`` from that structured fault's own stream.  Every
    stream is seeded in one call, and the blocks of all layouts are drawn
    together, a bounded batch at a time (:func:`repro.faults.rng.uniforms`).
    """
    n = len(keys)
    if faults:
        keys = np.concatenate([keys, key_array([key for _, key, _ in faults])])
    streams = seed_states(keys)
    # parts: (block, streams, requests) - every layout's blocks, then the
    # structured faults, so a mask combines its blocks in that order
    order = np.argsort(layout_of, kind="stable")
    bounds = np.searchsorted(layout_of[order], np.arange(len(layouts) + 1))
    parts = []
    for layout, lo, hi in zip(layouts, bounds[:-1], bounds[1:]):
        members = order[lo:hi]
        parts += [(block, members, members) for block in layout.blocks]
    parts += [
        (block, np.array([n + at]), np.array([request]))
        for at, (request, _, block) in enumerate(faults)
    ]
    found: dict[int, list[tuple[_Block, np.ndarray]]] = {}
    for batch in _batches(parts):
        groups = [(parts[at][0].runs, parts[at][1][rows]) for at, rows in batch]
        for (at, rows), values in zip(batch, uniforms(streams, groups, rng)):
            block, _, requests = parts[at]
            flips = values < block.threshold
            for hit in np.flatnonzero(flips.any(axis=1)):
                found.setdefault(int(requests[rows][hit]), []).append(
                    (block, flips[hit].copy())
                )
    masks = {}
    for index, blocks in found.items():
        mask = _combine(layouts[layout_of[index]].shape, blocks)
        if mask is not None:
            masks[index] = mask
    return masks


def _batches(
    parts: Sequence[tuple[_Block, np.ndarray, np.ndarray]]
) -> Iterator[list[tuple[int, slice]]]:
    """Split the parts' draws into batches of about ``_BATCH_CELLS`` cells."""
    batch: list[tuple[int, slice]] = []
    cells = 0
    for at, (block, streams, _) in enumerate(parts):
        width = sum(length for _, length in block.runs)
        step = max(1, _BATCH_CELLS // width)
        for start in range(0, len(streams), step):
            batch.append((at, slice(start, start + step)))
            cells += width * min(step, len(streams) - start)
            if cells >= _BATCH_CELLS:
                yield batch
                batch, cells = [], 0
    if batch:
        yield batch


def _combine(
    shape: tuple[int, int], parts: list[tuple[_Block, np.ndarray]]
) -> np.ndarray | None:
    """OR the weak-cell blocks, then XOR the structured faults, in order."""
    mask = np.zeros(shape, dtype=np.uint8)
    for block, flips in parts:
        width = sum(end - start for start, end in block.wide or block.spans)
        flips = flips.reshape(-1, width)
        if block.wide is not None:
            flips = _cluster_pairs(flips, block.spans, block.wide)
        col = 0
        for start, end in block.spans:
            view = mask[block.rows, start:end]
            block.op(view, flips[:, col : col + end - start], out=view)
            col += end - start
    # two structured faults can cancel each other's flips
    return mask if mask.any() else None


def _cluster_pairs(anchors: np.ndarray, spans: Footprint, wide: Footprint) -> np.ndarray:
    """Cells flipped by cluster anchors: each anchor and its right neighbour."""
    pairs, col = [], 0
    for (start, end), (lo, _) in zip(spans, wide):
        own = anchors[:, col : col + end - lo]
        cells = own[:, start - lo :].copy()
        cells[:, 1 - (start - lo) :] |= own[:, :-1]
        pairs.append(cells)
        col += end - lo
    return np.hstack(pairs)


def sample_transfer_burst(
    rng: np.random.Generator, config: DeviceConfig, rates: FaultRates
) -> TransferBurst | None:
    """Draw the (rare) transient burst event for one access."""
    if rates.transfer_burst_per_access <= 0:
        return None
    if rng.random() >= rates.transfer_burst_per_access:
        return None
    length = min(rates.transfer_burst_length, config.burst_length)
    start = int(rng.integers(config.burst_length - length + 1))
    return TransferBurst(
        pin=int(rng.integers(config.pins)), beat_start=start, length=length
    )


def burst_mask(config: DeviceConfig, burst: TransferBurst) -> np.ndarray:
    """Flip mask of one access, shape ``(pins, burst_length)``."""
    mask = np.zeros((config.pins, config.burst_length), dtype=np.uint8)
    mask[burst.pin, burst.beat_start : burst.beat_start + burst.length] = 1
    return mask
