"""Codeword-to-geometry layouts: how ECC codewords sit inside a DRAM row.

This module is the architectural heart of the PAIR reproduction.  A DRAM row
is modelled as a ``(pins, bits_per_pin)`` bit matrix (see
:mod:`repro.dram.device`); a *layout* describes which stored bits form each
codeword symbol.  Two orientations are provided:

* :class:`PinAlignedLayout` (PAIR): a codeword's symbols are consecutive
  bit groups **along one DQ pin line**.  A transfer burst or an in-array
  column defect on a pin lands in very few symbols of a single codeword.
* :class:`BeatAlignedLayout` (conventional orientation, ablation F8): a
  codeword's symbols sweep **across pins** beat by beat, so per-pin bursts
  smear one bit into many symbols.

Both layouts tile a row into equal-redundancy segments, so the alignment
ablation compares pure geometry at identical storage overhead.

Geometry conventions
--------------------
Within a row, pin ``p``'s data region holds ``data_bits_per_pin_per_row``
bits; the bit at offset ``c * BL + b`` is the one transferred on pin ``p`` at
beat ``b`` of column access ``c``.  Parity lives in the spare region at the
end of each pin's storage.

Footprints
----------
A read of column ``col`` decodes only some of a row's cells.  Its
*footprint* is the set of per-pin bit offsets it can touch, written as
sorted, disjoint, non-touching half-open ``(start, end)`` intervals that
apply to every pin; the whole row is ``((0, bits_per_pin),)``.  Each layout
derives the footprint of an access from its geometry, and the fault overlay
draws masks over that footprint only (DESIGN.md section 6b).

A footprint's *window* is the ``(pins, width)`` matrix of a row's cells
inside it, its intervals side by side (:func:`footprint_columns`).  Fault
masks are built at window size, devices read windows, and each layout turns
the windows of its accesses into codewords directly.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from typing import TypeAlias

import numpy as np

from .config import DeviceConfig

#: Per-pin bit intervals a read can touch (see the module docstring).
Footprint: TypeAlias = tuple[tuple[int, int], ...]


def merge_spans(spans: Iterable[tuple[int, int]]) -> Footprint:
    """Normalise half-open intervals into a :data:`Footprint`.

    Overlapping and touching intervals merge, so every gap between two
    intervals of the result is at least one bit wide.
    """
    out: list[tuple[int, int]] = []
    for start, end in sorted(spans):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return tuple(out)


def window_span(device: DeviceConfig, col: int) -> tuple[int, int]:
    """The per-pin bit interval column access ``col`` transfers."""
    bl = device.burst_length
    return (col * bl, (col + 1) * bl)


@functools.lru_cache(maxsize=4096)
def footprint_columns(footprint: Footprint) -> np.ndarray:
    """Row columns of a footprint's window: ``row[:, footprint_columns(fp)]``."""
    return np.concatenate([np.arange(start, end, dtype=np.intp) for start, end in footprint])


def window_offset(footprint: Footprint, bit: int) -> int:
    """Window column of per-pin offset ``bit``, which lies inside ``footprint``."""
    col = 0
    for start, end in footprint:
        if start <= bit < end:
            return col + bit - start
        col += end - start
    raise ValueError(f"bit {bit} lies outside footprint {footprint}")


def _cells(row: np.ndarray):
    """The cells of a row matrix in C order, indexable and writing through.

    A C-contiguous row is reshaped (a view); any other row is walked by
    ``row.flat``, because ``reshape`` would copy it and drop the writes.
    """
    return row.reshape(-1) if row.flags.c_contiguous else row.flat


class SegmentedLayout:
    """Base class: a row tiled into fixed-size codeword segments.

    Subclasses fill ``self._pin_index`` and ``self._bit_index``, both of
    shape ``(num_codewords, n_symbols, symbol_bits)``, mapping each codeword
    bit to its (pin, bit-offset) home in the row matrix.  Bit offsets index
    the *full* per-pin storage: offsets past the data region land in spare.
    Gathers and scatters go through one flat cell index derived from the
    two, ``pin * bits_per_pin + bit``.  Segment ``s`` holds per-pin offsets
    ``[s * span, (s+1) * span)`` of the data region and ``[s * parity_span,
    (s+1) * parity_span)`` of the spare region, which subclasses set.
    """

    def __init__(
        self,
        device: DeviceConfig,
        data_symbols: int,
        parity_symbols: int,
        symbol_bits: int = 8,
    ):
        self.device = device
        self.k = data_symbols
        self.r_sym = parity_symbols
        self.symbol_bits = symbol_bits
        self.n = data_symbols + parity_symbols
        self.segment_data_bits = data_symbols * symbol_bits
        self.segment_parity_bits = parity_symbols * symbol_bits
        self._pin_index: np.ndarray | None = None
        self._bit_index: np.ndarray | None = None
        #: a symbol's value from its bits, LSB first
        self._weights = 1 << np.arange(symbol_bits, dtype=np.int64)
        #: per-pin bits of one segment's data and parity regions
        self.span = self.parity_span = 0
        #: footprint of each segment read so far
        self._footprints: dict[int, Footprint] = {}

    # -- indices -------------------------------------------------------------

    @functools.cached_property
    def _cell_index(self) -> np.ndarray:
        """The flat cell index ``pin * bits_per_pin + bit`` of every codeword
        bit, built on first use."""
        device = self.device
        cells = self._pin_index.astype(np.intp)  # other dtypes convert per call
        cells *= device.data_bits_per_pin_per_row + device.spare_bits_per_pin_per_row
        cells += self._bit_index
        return cells

    @property
    def num_codewords(self) -> int:
        return self._pin_index.shape[0]

    def gather(self, row: np.ndarray, codeword: int) -> np.ndarray:
        """Collect the symbols of one codeword from a row bit matrix."""
        return _cells(row)[self._cell_index[codeword]] @ self._weights

    def gather_many(self, row: np.ndarray, codewords: Sequence[int]) -> np.ndarray:
        """Symbols of several codewords at once, shape ``(len(codewords), n)``.

        One fancy-indexed gather for the whole group - the batched read path
        uses this to pull every codeword of an access in a single pass.
        """
        cells = self._cell_index[np.asarray(codewords, dtype=np.intp)]
        return _cells(row)[cells] @ self._weights

    def scatter(self, row: np.ndarray, codeword: int, symbols: np.ndarray) -> None:
        """Write the symbols of one codeword back into a row bit matrix."""
        symbols = np.asarray(symbols, dtype=np.int64)
        shifts = np.arange(self.symbol_bits, dtype=np.int64)
        bits = ((symbols[:, None] >> shifts) & 1).astype(np.uint8)
        _cells(row)[self._cell_index[codeword]] = bits

    # -- footprint windows -------------------------------------------------------

    def window_symbols(self, windows: np.ndarray) -> np.ndarray:
        """Symbols of the codewords of reads, from their footprint windows.

        ``windows`` is ``(..., pins, width)``: each the window of a read's
        :meth:`access_footprint`, which holds its codewords' bits and no
        others.  The result is ``(..., len(codewords_of_access(col)), n)``
        uint8 and equals :meth:`gather_many` of the row over
        ``codewords_of_access(col)``: one flat little-endian pack of each
        codeword's bit stream, which subclasses cut from the windows
        (``_window_stream``, inverted by ``_stream_window``).
        """
        if self.symbol_bits != 8:
            raise ValueError("footprint windows pack 8-bit symbols only")
        return np.packbits(self._window_stream(windows), axis=-1, bitorder="little")

    def window_bits(self, symbols: np.ndarray) -> np.ndarray:
        """The footprint windows of codeword symbols: :meth:`window_symbols` inverted."""
        stream = np.unpackbits(symbols.astype(np.uint8), axis=-1, bitorder="little")
        return self._stream_window(stream)

    # -- access relationships --------------------------------------------------

    def segment_of_col(self, col: int) -> int:
        return (col * self.device.burst_length) // self.span

    def codewords_of_access(self, col: int) -> tuple[int, ...]:
        """Codeword ids whose data region overlaps column access ``col``."""
        raise NotImplementedError

    def data_symbol_range_of_access(self, codeword: int, col: int) -> tuple[int, int]:
        """Half-open range of *data symbol* indices the access covers."""
        raise NotImplementedError

    def access_footprint(self, col: int) -> Footprint:
        """Footprint of a read of ``col``: the cells of its codewords.

        Segments cover whole column accesses, so this includes the access
        window.  Each segment's footprint is computed once.
        """
        seg = self.segment_of_col(col)
        footprint = self._footprints.get(seg)
        if footprint is None:
            data, parity = self.span, self.parity_span
            spare = self.device.data_bits_per_pin_per_row
            footprint = self._footprints[seg] = merge_spans((
                (seg * data, (seg + 1) * data),
                (spare + seg * parity, spare + (seg + 1) * parity),
            ))
        return footprint

    def check(self) -> None:
        """Validate that the layout fits the device and never overlaps."""
        pins = self.device.pins
        total = self.device.data_bits_per_pin_per_row + self.device.spare_bits_per_pin_per_row
        flat = self._cell_index.reshape(-1)
        if np.unique(flat).size != flat.size:
            raise ValueError("layout maps two codeword bits to one cell")
        if self._pin_index.max() >= pins or self._bit_index.max() >= total:
            raise ValueError("layout exceeds device geometry")


class PinAlignedLayout(SegmentedLayout):
    """PAIR's layout: each codeword lives on a single DQ pin line.

    Pin ``p``'s data region is tiled into ``segments_per_pin`` chunks of
    ``k * symbol_bits`` bits; chunk ``s`` plus its parity (stored in pin
    ``p``'s spare region) forms codeword ``p * segments_per_pin + s``.
    Symbols pack consecutive bits along the pin (LSB = earliest beat), so a
    length-``b`` transfer burst touches at most ``ceil(b / symbol_bits) + 1``
    symbols of one codeword.
    """

    def __init__(
        self,
        device: DeviceConfig,
        data_symbols: int = 240,
        parity_symbols: int = 16,
        symbol_bits: int = 8,
    ):
        super().__init__(device, data_symbols, parity_symbols, symbol_bits)
        data_bits = device.data_bits_per_pin_per_row
        if data_bits % self.segment_data_bits:
            raise ValueError(
                f"pin data region ({data_bits}b) not tileable by "
                f"{self.segment_data_bits}b segments"
            )
        self.segments_per_pin = data_bits // self.segment_data_bits
        # every pin's segment holds one codeword: its data chunk and its parity
        self.span, self.parity_span = self.segment_data_bits, self.segment_parity_bits
        if self.segments_per_pin * self.segment_parity_bits > device.spare_bits_per_pin_per_row:
            raise ValueError("parity does not fit in the spare region")
        if self.segment_data_bits % (device.burst_length) :
            raise ValueError("segment must cover whole column accesses")
        self._build_indices()

    def _build_indices(self) -> None:
        device = self.device
        num = device.pins * self.segments_per_pin
        pin_index = np.zeros((num, self.n, self.symbol_bits), dtype=np.int32)
        bit_index = np.zeros((num, self.n, self.symbol_bits), dtype=np.int32)
        sb = self.symbol_bits
        for pin in range(device.pins):
            for seg in range(self.segments_per_pin):
                cw = pin * self.segments_per_pin + seg
                pin_index[cw] = pin
                data_base = seg * self.segment_data_bits
                offs = data_base + np.arange(self.segment_data_bits).reshape(self.k, sb)
                bit_index[cw, : self.k] = offs
                parity_base = device.data_bits_per_pin_per_row + seg * self.segment_parity_bits
                poffs = parity_base + np.arange(self.segment_parity_bits).reshape(
                    self.r_sym, sb
                )
                bit_index[cw, self.k :] = poffs
        self._pin_index = pin_index
        self._bit_index = bit_index

    def _window_stream(self, windows: np.ndarray) -> np.ndarray:
        # pin p's window row is codeword p's data then parity, in bit order
        return windows

    def _stream_window(self, stream: np.ndarray) -> np.ndarray:
        return stream

    def codeword_id(self, pin: int, segment: int) -> int:
        return pin * self.segments_per_pin + segment

    def codewords_of_access(self, col: int) -> tuple[int, ...]:
        seg = self.segment_of_col(col)
        return tuple(
            self.codeword_id(pin, seg) for pin in range(self.device.pins)
        )

    def data_symbol_range_of_access(self, codeword: int, col: int) -> tuple[int, int]:
        bl = self.device.burst_length
        start_bit = col * bl - self.segment_of_col(col) * self.segment_data_bits
        return (start_bit // self.symbol_bits, (start_bit + bl) // self.symbol_bits)


class BeatAlignedLayout(SegmentedLayout):
    """Conventional orientation at PAIR-equal overhead (ablation F8).

    The row is tiled into segments spanning *all* pins: segment ``s`` covers
    per-pin offsets ``[s * span, (s+1) * span)`` with
    ``span = k * symbol_bits / pins``.  Within a segment, bits are ordered
    beat-major (``offset * pins + pin``), so one symbol packs bits from
    ``symbol_bits`` *different pins* - the orientation every conventional
    IECC uses, and the one PAIR argues against.
    """

    def __init__(
        self,
        device: DeviceConfig,
        data_symbols: int = 240,
        parity_symbols: int = 16,
        symbol_bits: int = 8,
    ):
        super().__init__(device, data_symbols, parity_symbols, symbol_bits)
        if self.segment_data_bits % device.pins:
            raise ValueError("segment size must divide across pins")
        self.span = self.segment_data_bits // device.pins
        if self.span % device.burst_length:
            raise ValueError("segment span must cover whole column accesses")
        data_bits = device.data_bits_per_pin_per_row
        if data_bits % self.span:
            raise ValueError("pin data region not tileable by segment span")
        self.segments = data_bits // self.span
        self.parity_span = self.segment_parity_bits // device.pins
        if self.segment_parity_bits % device.pins:
            raise ValueError("parity must divide across pins")
        if self.segments * self.parity_span > device.spare_bits_per_pin_per_row:
            raise ValueError("parity does not fit in the spare region")
        self._build_indices()

    def _build_indices(self) -> None:
        device = self.device
        pins = device.pins
        sb = self.symbol_bits
        pin_index = np.zeros((self.segments, self.n, sb), dtype=np.int32)
        bit_index = np.zeros((self.segments, self.n, sb), dtype=np.int32)
        for seg in range(self.segments):
            # Data bits: global index g -> pin = g % pins, offset = g // pins.
            g = np.arange(self.segment_data_bits)
            pin_flat = g % pins
            off_flat = seg * self.span + g // pins
            pin_index[seg, : self.k] = pin_flat.reshape(self.k, sb)
            bit_index[seg, : self.k] = off_flat.reshape(self.k, sb)
            gp = np.arange(self.segment_parity_bits)
            ppin = gp % pins
            poff = (
                device.data_bits_per_pin_per_row
                + seg * self.parity_span
                + gp // pins
            )
            pin_index[seg, self.k :] = ppin.reshape(self.r_sym, sb)
            bit_index[seg, self.k :] = poff.reshape(self.r_sym, sb)
        self._pin_index = pin_index
        self._bit_index = bit_index

    def _window_stream(self, windows: np.ndarray) -> np.ndarray:
        # the one codeword's bit g sits at window column g // pins, pin g % pins
        return windows.swapaxes(-1, -2).reshape(*windows.shape[:-2], 1, -1)

    def _stream_window(self, stream: np.ndarray) -> np.ndarray:
        pins = self.device.pins
        return stream.reshape(*stream.shape[:-2], stream.shape[-1] // pins, pins).swapaxes(-1, -2)

    def codewords_of_access(self, col: int) -> tuple[int, ...]:
        return (self.segment_of_col(col),)

    def data_symbol_range_of_access(self, codeword: int, col: int) -> tuple[int, int]:
        bl = self.device.burst_length
        start_off = col * bl - self.segment_of_col(col) * self.span
        start_bit = start_off * self.device.pins
        n_bits = bl * self.device.pins
        return (start_bit // self.symbol_bits, (start_bit + n_bits) // self.symbol_bits)


class SecWordLayout:
    """Layout for the conventional (136, 128) on-die SEC word.

    Each column access is one codeword: the 128 transferred data bits (beat
    major across pins) plus 8 parity bits stored one per pin in the spare
    region at offset ``col``.  Exposes the same gather/scatter API shape as
    the segmented layouts but per *column* rather than per codeword id.
    """

    def __init__(self, device: DeviceConfig, parity_bits: int = 8):
        per_pin = -(-parity_bits // device.pins)  # ceil: spare bits per pin per col
        if device.columns_per_row * per_pin > device.spare_bits_per_pin_per_row:
            raise ValueError("parity does not fit in the spare region")
        self.device = device
        self.parity_bits = parity_bits
        self.n = device.access_data_bits + parity_bits
        self.k = device.access_data_bits
        self._footprints: dict[int, Footprint] = {}

    def gather(self, row: np.ndarray, col: int) -> np.ndarray:
        """Return the n-bit codeword (data beat-major, then parity)."""
        device = self.device
        bl = device.burst_length
        data = row[:, col * bl : (col + 1) * bl].T.reshape(-1)  # beat-major
        parity = self._parity_bits_view(row, col)
        return np.concatenate([data, parity])

    def window_words(self, windows: np.ndarray) -> np.ndarray:
        """``(..., n)`` codewords of reads from their ``(..., pins, width)``
        footprint windows (:meth:`access_footprint`): equal to :meth:`gather`.

        A window is the access window, then the parity columns, so its
        column-major bits are the data beat-major followed by the parity.
        """
        stream = windows.swapaxes(-1, -2).reshape(*windows.shape[:-2], -1)
        return stream[..., : self.n]

    def scatter(self, row: np.ndarray, col: int, word: np.ndarray) -> None:
        device = self.device
        bl = device.burst_length
        word = np.asarray(word, dtype=np.uint8)
        data = word[: self.k].reshape(bl, device.pins).T
        row[:, col * bl : (col + 1) * bl] = data
        pins_used = self._parity_pin_offsets(col)
        row[pins_used[0], pins_used[1]] = word[self.k :]

    def access_footprint(self, col: int) -> Footprint:
        """Footprint of the word of ``col``: its data window and parity bits,
        computed once per column."""
        footprint = self._footprints.get(col)
        if footprint is None:
            per_pin = -(-self.parity_bits // self.device.pins)  # ceil
            parity = self.device.data_bits_per_pin_per_row + col * per_pin
            footprint = self._footprints[col] = merge_spans(
                (window_span(self.device, col), (parity, parity + per_pin))
            )
        return footprint

    def _parity_pin_offsets(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        device = self.device
        per_pin = -(-self.parity_bits // device.pins)  # ceil
        idx = np.arange(self.parity_bits)
        pins = idx % device.pins
        offs = device.data_bits_per_pin_per_row + col * per_pin + idx // device.pins
        return pins, offs

    def _parity_bits_view(self, row: np.ndarray, col: int) -> np.ndarray:
        pins, offs = self._parity_pin_offsets(col)
        return row[pins, offs]
