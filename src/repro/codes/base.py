"""Common interfaces for the block codes used by the ECC schemes.

Every code in :mod:`repro.codes` encodes a fixed-length message into a
fixed-length codeword.  ``decode_batch`` decodes a ``(batch, n)`` matrix of
(possibly corrupted) words into one columnar :class:`BatchDecode`, and
``decode`` is its one-row view, a :class:`DecodeResult`.  Schemes in
:mod:`repro.schemes` compose these codes into full read/write datapaths.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..obs import metrics as _obs


class DecodeStatus(Enum):
    """Outcome of a bounded-distance decode attempt."""

    OK = "ok"  # word was already a codeword
    CORRECTED = "corrected"  # errors found and corrected
    DETECTED = "detected"  # uncorrectable, flagged
    FAILED = "failed"  # decoder gave up without a verdict (treated as detected)


@dataclass
class DecodeResult:
    """Result of decoding one word.

    Attributes
    ----------
    status:
        What the decoder *believes* happened.  Whether a ``CORRECTED`` result
        is actually correct (vs a miscorrection) is judged by the caller, who
        knows the transmitted word.
    data:
        The decoded message symbols/bits (best effort even on detection).
    corrected_positions:
        Codeword positions the decoder modified.
    corrections:
        Number of symbol/bit corrections applied.
    codeword:
        The full corrected codeword when the decoder believes it recovered
        one (None on detection) - schemes scatter this back into storage
        layouts.
    """

    status: DecodeStatus
    data: np.ndarray
    corrected_positions: tuple[int, ...] = field(default_factory=tuple)
    codeword: np.ndarray | None = None

    @property
    def corrections(self) -> int:
        return len(self.corrected_positions)

    @property
    def believed_good(self) -> bool:
        """True when the decoder claims the data is now correct."""
        return self.status in (DecodeStatus.OK, DecodeStatus.CORRECTED)


#: :class:`DecodeStatus` of each int8 code in :attr:`BatchDecode.status`.
_STATUSES = tuple(DecodeStatus)
STATUS_OK, STATUS_CORRECTED, STATUS_DETECTED, STATUS_FAILED = range(len(_STATUSES))


class BatchDecode:
    """Columnar result of decoding a ``(batch, n)`` matrix of words.

    Attributes
    ----------
    status:
        ``(batch,)`` int8; ``STATUS_OK`` .. ``STATUS_FAILED`` index the
        :class:`DecodeStatus` members in definition order.
    codewords:
        ``(batch, n)`` corrected words.  A row the decoder did not settle
        (detected or failed) holds the received word unchanged.
    corrected:
        ``(batch, n)`` bool mask of the positions the decoder modified.

    :meth:`row` is the per-word view: ``code.decode_batch(words).row(i)``
    equals ``code.decode(words[i])``.  There is deliberately no
    ``__iter__``: walking the words one at a time is the cost the columnar
    form exists to avoid, so callers that need it say so with :meth:`rows`.
    """

    __slots__ = ("status", "codewords", "corrected", "k")

    def __init__(self, status: np.ndarray, codewords: np.ndarray, corrected: np.ndarray, k: int):
        self.status = status
        self.codewords = codewords
        self.corrected = corrected
        self.k = k

    @property
    def data(self) -> np.ndarray:
        """``(batch, k)`` decoded message symbols (a view of :attr:`codewords`)."""
        return self.codewords[:, : self.k]

    @property
    def detected(self) -> np.ndarray:
        """``(batch,)`` bool: the decoder flagged the word uncorrectable."""
        return self.status == STATUS_DETECTED

    @property
    def corrections(self) -> np.ndarray:
        """``(batch,)`` number of positions corrected per word."""
        return np.count_nonzero(self.corrected, axis=1)

    def __len__(self) -> int:
        return len(self.status)

    def row(self, i: int) -> DecodeResult:
        """Word ``i`` as a :class:`DecodeResult` (copies, not views)."""
        status = _STATUSES[self.status[i]]
        word = self.codewords[i]
        return DecodeResult(
            status,
            word[: self.k].copy(),
            tuple(self.corrected[i].nonzero()[0].tolist()),
            word.copy() if self.status[i] <= STATUS_CORRECTED else None,
        )

    def rows(self) -> list[DecodeResult]:
        """Every word as a :class:`DecodeResult`, in order."""
        return [self.row(i) for i in range(len(self))]


class OutcomeCounters:
    """Per-decoder outcome counters: ``<prefix>.words``, ``.detected``,
    ``.corrected_words`` (DESIGN.md 6e), counted from a status array."""

    def __init__(self, prefix: str):
        self.words = _obs.counter(f"{prefix}.words")
        self.detected = _obs.counter(f"{prefix}.detected")
        self.corrected = _obs.counter(f"{prefix}.corrected_words")

    def record(self, status: np.ndarray) -> None:
        """Count one ``decode_batch`` call's outcomes (only when obs is on)."""
        if not _obs.enabled():
            return
        self.words.add(len(status))
        self.detected.add(int(np.count_nonzero(status == STATUS_DETECTED)))
        self.corrected.add(int(np.count_nonzero(status == STATUS_CORRECTED)))


class BlockCode(abc.ABC):
    """An (n, k) block code over bits or GF(2^m) symbols."""

    #: codeword length in symbols (bits for binary codes)
    n: int
    #: message length in symbols (bits for binary codes)
    k: int

    @property
    def r(self) -> int:
        """Number of redundancy symbols."""
        return self.n - self.k

    @property
    def rate(self) -> float:
        return self.k / self.n

    @property
    def overhead(self) -> float:
        """Storage overhead of the redundancy relative to the data."""
        return self.r / self.k

    @property
    @abc.abstractmethod
    def d_min(self) -> int:
        """Minimum Hamming distance between codewords (in symbols)."""

    @property
    def t(self) -> int:
        """Correction radius: every pattern of at most ``t`` errors decodes
        to the sent codeword, by the minimum distance alone."""
        return (self.d_min - 1) // 2

    @abc.abstractmethod
    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``k`` message symbols into an ``n``-symbol codeword."""

    @abc.abstractmethod
    def decode(self, received: np.ndarray) -> DecodeResult:
        """Decode a received ``n``-symbol word: ``decode_batch`` of one row."""

    @abc.abstractmethod
    def decode_batch(self, words: np.ndarray) -> BatchDecode:
        """Decode a ``(batch, n)`` matrix of received words.

        Contract: ``decode_batch(words).row(i)`` equals ``decode(words[i])``
        for every row - the Monte-Carlo engines and the conditional tables
        rely on it for bit-identical results.
        """

    def is_codeword(self, word: np.ndarray) -> bool:
        """Whether ``word`` is a valid codeword (default: re-encode check)."""
        word = np.asarray(word)
        return bool(np.array_equal(self.encode(word[: self.k]), word))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, k={self.k})"
