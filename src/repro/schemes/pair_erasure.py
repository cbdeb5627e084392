"""PAIR with defect profiling and erasure decoding (extension).

Because PAIR's codewords are pin-aligned, a *persistent* defect (a faulty
bitline/column, a mat region, a weak pin segment) occupies a fixed, small
set of symbol positions of a known codeword.  A profiling pass can learn
those positions, and the Reed-Solomon decoder can then treat them as
**erasures**: ``f`` erasures plus ``v`` random errors decode whenever
``2v + f <= r`` - up to twice the corrections of blind decoding for the
same parity budget.  This is the natural "manage widely distributed
inherent faults" extension of the architecture (the paper's conventional
IECC baselines cannot do this: their codewords smear each defect across
words and syndromes carry no location memory).

:class:`DefectMap` holds the learned positions; :func:`profile_chip`
implements the classic manufacturing-test style scan (read raw rows, flag
cells that fail repeatedly across rows - persistent structure - while
one-off weak cells stay unmarked); :class:`PairErasureScheme` plugs the map
into PAIR's reader through :meth:`PairErasureScheme._erasures_for_codeword`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..dram.config import RANK_X8_4CHIP, RankConfig
from ..dram.device import DramDevice
from .pair import PairScheme


@dataclass
class DefectMap:
    """Learned persistent-defect cells per (chip, bank): (pin, bit_offset).

    ``version`` counts :meth:`mark` calls, so a reader that caches what it
    derived from the map can tell when that has gone stale.
    """

    cells: dict[tuple[int, int], set[tuple[int, int]]] = field(default_factory=dict)
    version: int = field(default=0, init=False, repr=False, compare=False)

    def mark(self, chip: int, bank: int, pin: int, bit_offset: int) -> None:
        self.cells.setdefault((chip, bank), set()).add((pin, bit_offset))
        self.version += 1

    def defects(self, chip: int, bank: int) -> set[tuple[int, int]]:
        return self.cells.get((chip, bank), set())

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.cells.values())


def profile_chip(
    device: DramDevice,
    chip_index: int,
    defect_map: DefectMap,
    banks: tuple[int, ...] = (0,),
    sample_rows: int = 32,
    repeat_threshold: float = 0.6,
    seed: int = 0,
) -> int:
    """Scan a chip for persistent structured defects.

    Reads raw (pre-ECC) contents of ``sample_rows`` random rows per bank and
    marks any cell position that fails in at least ``repeat_threshold`` of
    the sampled rows.  Column/pin/mat faults repeat across rows and get
    marked; isolated weak cells fail in one row only and stay below the
    threshold - exactly the separation the erasure budget wants.

    Returns the number of newly marked cells.
    """
    cfg = device.config
    rng = np.random.default_rng([seed, 0xDEFEC7, chip_index])
    marked = 0
    for bank in banks:
        rows = rng.choice(cfg.rows_per_bank, size=min(sample_rows, cfg.rows_per_bank),
                          replace=False)
        counts: Counter[tuple[int, int]] = Counter()
        for row in rows:
            pristine = device.row_view(bank, int(row))
            observed = device.row_with_faults(bank, int(row))
            diff = pristine ^ observed
            for pin, off in zip(*np.nonzero(diff)):
                counts[(int(pin), int(off))] += 1
        threshold = repeat_threshold * len(rows)
        for cell, hits in counts.items():
            if hits >= threshold:
                defect_map.mark(chip_index, bank, cell[0], cell[1])
                marked += 1
    return marked


class PairErasureScheme(PairScheme):
    """PAIR whose decoders receive profiled defects as erasures."""

    name = "pair-erasure"

    def __init__(
        self,
        rank: RankConfig = RANK_X8_4CHIP,
        defect_map: DefectMap | None = None,
        max_erasures: int | None = None,
        **kwargs,
    ):
        super().__init__(rank=rank, **kwargs)
        self.name = "pair-erasure"
        self.defect_map = defect_map if defect_map is not None else DefectMap()
        # keep two syndromes in reserve for error correction alongside
        # erasures unless the caller overrides
        inner_r = self.code.inner.r
        self.max_erasures = max_erasures if max_erasures is not None else inner_r - 2
        self._erasure_cache: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self._cached_version = self.defect_map.version

    def profile(self, chips: list[DramDevice], banks: tuple[int, ...] = (0,),
                sample_rows: int = 32, seed: int = 0) -> int:
        """Profile every chip of the rank into this scheme's defect map."""
        marked = 0
        for chip_idx, device in enumerate(chips[: self.rank.data_chips]):
            marked += profile_chip(
                device, chip_idx, self.defect_map, banks=banks,
                sample_rows=sample_rows, seed=seed,
            )
        return marked

    def _erasures_for_codeword(self, chip_idx: int, bank: int, cw: int) -> tuple[int, ...]:
        """Map defect cells onto symbol positions of one codeword (cached
        until the defect map is next marked)."""
        if self._cached_version != self.defect_map.version:
            self._erasure_cache.clear()
            self._cached_version = self.defect_map.version
        key = (chip_idx, bank, cw)
        if key in self._erasure_cache:
            return self._erasure_cache[key]
        defects = self.defect_map.defects(chip_idx, bank)
        if not defects:
            self._erasure_cache[key] = ()
            return ()
        pin_index = self.layout._pin_index[cw]
        bit_index = self.layout._bit_index[cw]
        positions = set()
        for sym in range(self.layout.n):
            for b in range(self.layout.symbol_bits):
                if (int(pin_index[sym, b]), int(bit_index[sym, b])) in defects:
                    positions.add(sym)
                    break
        out = tuple(sorted(positions))
        if len(out) > self.max_erasures:
            # too degraded to spend the whole budget on hints; fall back to
            # blind decoding (the decoder will flag if it cannot cope)
            out = ()
        self._erasure_cache[key] = out
        return out
